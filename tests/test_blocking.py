"""Cache-blocked, in-place 6D tensor stages against their whole-plane
references in ``oracles``: the same bytes for any row-block size and any
worker count, in a new array or in a handed-over input's, and the
shifted-minimum pool against ndimage.  A tensor is smoothed to the bytes
of its own whole-tensor evaluation, which lies within its dtype's
rounding of ndimage's float64 result."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from densereg import parallel, regularizer
from densereg.correlation import CostTensor6D, dissimilarity_tensor
from densereg.features import FeatureVolume
from densereg.geometry import DisplacementField, DisplacementSpace, Volume3D
from densereg.metrics import jacobian_stats
from densereg.pipeline import _hand_over
from densereg.regularizer import RegularizerParams, _min_pool1d, regularize
from densereg.transform import (ProbTensor6D, nonlocal_label_loss,
                                softmax_probabilities, warp)
from oracles import (full_range_label_loss, out_of_place_regularize,
                     planewise_dissimilarity, planewise_label_loss,
                     whole_tensor_regularize, whole_volume_warp)

WORKERS = (1, 2, 3)
PROPERTY = settings(max_examples=25, deadline=None)

# Grids of 1-5 points per axis, so k2 is often not a multiple of the rows
# per block.
counts = st.tuples(*[st.integers(1, 5)] * 3)
steps = st.tuples(*[st.sampled_from((1, 3, 5))] * 3)
# Rows per block: None keeps the default budget, 0 sets a budget below one
# row (which still gives one row per block).
block_rows = st.sampled_from((None, 0, 1, 2, 3))
scales = st.one_of(st.just(1.0), st.floats(0.1, 10.0))
dtypes = st.sampled_from((np.float64, np.float32))

# A smoothing in the tensor's dtype, against ndimage's float64 one of the
# same values: its largest difference in epsilons of that dtype times the
# largest value.
ULPS = 16


@pytest.fixture(scope="module", autouse=True)
def thread_every_plane():
    """Hand every plane to the workers, so the threaded path is tested."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "MIN_THREADED_PLANE_BYTES", 0)
        yield


def for_each_setting(rows, grid_counts, disp_steps, compute, itemsize):
    """``compute(workers)`` for every worker count, with the row-block
    budget set to give ``rows`` rows of a plane of ``itemsize``-byte
    values."""
    row_bytes = itemsize * grid_counts[2] * int(np.prod(disp_steps))
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(parallel, "BLOCK_BYTES", max(1, rows * row_bytes))
        return [compute(w) for w in WORKERS]


def random_features(rng, channels, dims):
    data = rng.normal(size=(channels,) + dims)
    origin = tuple(-1.0 + 1.0 / n for n in dims)
    step = tuple(2.0 / n for n in dims)
    return FeatureVolume(data, origin, step)


def random_cost(seed, grid_counts, disp_steps, dtype=np.float64, q=0.3):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 2.0, size=tuple(grid_counts) + tuple(disp_steps))
    return CostTensor6D(values.astype(dtype), DisplacementSpace(q, disp_steps))


@st.composite
def boxes(draw, dims):
    """A box of random extent and position in a volume of ``dims``, as
    slices; each face of the volume is touched often."""
    box = []
    for n in dims:
        lo = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
        hi = draw(st.one_of(st.just(n - 1), st.integers(lo, n - 1)))
        box.append(slice(lo, hi + 1))
    return tuple(box)


@st.composite
def compact_label_pairs(draw):
    """Moving and fixed label volumes of background 0 and compact labels:
    labels 1-3 fill part of a drawn box on each side, label 4 is present
    in the fixed volume only, and label 5 is one voxel of the moving
    volume."""
    dims = draw(st.tuples(*[st.integers(1, 8)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    moving, fixed = np.zeros(dims, np.int32), np.zeros(dims, np.int32)
    for label, sides in ((1, (moving, fixed)), (2, (moving, fixed)),
                         (3, (moving, fixed)), (4, (fixed,))):
        for vol in sides:
            box = draw(boxes(dims))
            vol[box] = np.where(rng.random(vol[box].shape) < 0.7, label,
                                vol[box])
    voxel = tuple(draw(st.integers(0, n - 1)) for n in dims)
    moving[voxel] = 5
    return (Volume3D(moving, is_label=True), Volume3D(fixed, is_label=True))


def assert_near_ndimage(got, values, params):
    """``got``, a regularized ``values`` in their dtype, lies within
    ``ULPS`` of ndimage's float64 result on the same values."""
    want = out_of_place_regularize(values.astype(np.float64), params)
    assert got.dtype == values.dtype
    bound = ULPS * np.finfo(values.dtype).eps * np.abs(want).max()
    assert np.abs(got - want).max() <= bound


def smoothed_bytes(values, params):
    """The bytes a regularized ``values`` must have: those of its
    whole-tensor evaluation, after checking that it lies within rounding
    of ndimage's float64 result on the same values."""
    got = whole_tensor_regularize(values, params)
    assert_near_ndimage(got, values, params)
    return got.tobytes()


class TestAgainstWholePlaneOracles:
    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           channels=st.integers(1, 3), rows=block_rows)
    def test_dissimilarity_tensor(self, seed, grid_counts, disp_steps,
                                  channels, rows):
        rng = np.random.default_rng(seed)
        fixed = random_features(rng, channels, (5, 4, 6))
        moving = random_features(rng, channels, (5, 4, 6))
        space = DisplacementSpace(0.3, disp_steps)
        want = planewise_dissimilarity(fixed, moving, grid_counts,
                                       space).tobytes()
        for got in for_each_setting(
                rows, grid_counts, disp_steps,
                lambda w: dissimilarity_tensor(fixed, moving, grid_counts,
                                               space, workers=w).values,
                itemsize=4):
            assert got.tobytes() == want

    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           rows=block_rows,
           ids=st.lists(st.integers(1, 2035), max_size=3, unique=True))
    def test_nonlocal_label_loss(self, seed, grid_counts, disp_steps, rows,
                                 ids):
        rng = np.random.default_rng(seed)
        prob = softmax_probabilities(
            random_cost(seed, grid_counts, disp_steps), 3.0, workers=1)
        ids = np.array([0] + ids)
        moving = Volume3D(ids[rng.integers(0, ids.size, size=(6, 5, 7))],
                          is_label=True)
        fixed = Volume3D(ids[rng.integers(0, ids.size, size=(6, 5, 7))],
                         is_label=True)
        want = planewise_label_loss(prob, moving, fixed)
        for got in for_each_setting(
                rows, grid_counts, disp_steps,
                lambda w: nonlocal_label_loss(prob, moving, fixed,
                                              int(ids.max()) + 1, workers=w),
                itemsize=4):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           rows=block_rows, q=st.sampled_from((0.05, 0.3, 0.9)),
           labels=compact_label_pairs())
    def test_nonlocal_label_loss_compact_labels(self, seed, grid_counts,
                                                disp_steps, rows, q, labels):
        """Labels cropped to their boxes, small capture ranges whose
        points reach few boxes or none, and boxes on every face: the
        crop keeps every bit of both oracles."""
        moving, fixed = labels
        prob = softmax_probabilities(
            random_cost(seed, grid_counts, disp_steps, q=q), 3.0, workers=1)
        want = planewise_label_loss(prob, moving, fixed)
        assert np.float64(want).tobytes() == np.float64(
            full_range_label_loss(prob, moving, fixed, 6)).tobytes()
        for got in for_each_setting(
                rows, grid_counts, disp_steps,
                lambda w: nonlocal_label_loss(prob, moving, fixed, 6,
                                              workers=w),
                itemsize=4):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           rows=block_rows, iterations=st.integers(0, 3),
           output_scale=scales, spatial=st.sampled_from((1, 3)),
           dtype=dtypes)
    def test_regularize(self, seed, grid_counts, disp_steps, rows,
                        iterations, output_scale, spatial, dtype):
        # A 3-wide spatial kernel needs extents of 1 or >= 3.
        if any(c == 2 for c in grid_counts):
            spatial = 1
        cost = random_cost(seed, grid_counts, disp_steps, dtype)
        params = RegularizerParams(output_scale=output_scale,
                                   iterations=iterations,
                                   spatial_kernel=spatial)
        want = smoothed_bytes(cost.values, params)
        for got in for_each_setting(
                rows, grid_counts, disp_steps,
                lambda w: regularize(cost, params, workers=w).values,
                cost.values.itemsize):
            assert got.dtype == dtype
            assert got.tobytes() == want


class TestLongSpatialAxis:
    """A 40-point spatial axis, whose mean-field products are cut by
    columns to the row-block budget.  On an axis of 32 or more points,
    OpenBLAS (0.3.31, SkylakeX kernels) rounds a product of 2-8 columns
    differently from a wider one, so there the bytes may change with
    ``parallel.BLOCK_BYTES`` and need not equal those of
    :func:`whole_tensor_regularize`, whose products are never cut: that
    oracle is not compared here.  For each budget the bytes are the same
    for every worker count and lie within rounding of ndimage's float64
    result."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [None, 0])
    def test_regularize(self, rows, dtype):
        grid_counts, disp_steps = (40, 1, 1), (3, 3, 5)
        cost = random_cost(5, grid_counts, disp_steps, dtype)
        params = RegularizerParams(output_scale=1.5, iterations=2,
                                   spatial_kernel=3)
        got = for_each_setting(
            rows, grid_counts, disp_steps,
            lambda w: regularize(cost, params, workers=w).values,
            cost.values.itemsize)
        for other in got[1:]:
            assert other.tobytes() == got[0].tobytes()
        assert_near_ndimage(got[0], cost.values, params)


class TestRegularizeInput:
    @pytest.mark.parametrize("output_scale", [1.0, 2.0])
    def test_input_bytes_unchanged(self, output_scale):
        """A caller's validated tensor is read-only, and both stages leave
        it so, with the same bytes, and put their result elsewhere."""
        cost = random_cost(7, (4, 3, 3), (3, 3, 3))
        before = cost.values.tobytes()
        params = RegularizerParams(output_scale=output_scale, iterations=3,
                                   spatial_kernel=3)
        for stage in (lambda c: regularize(c, params, workers=2),
                      lambda c: softmax_probabilities(c, 3.0, workers=2)):
            out = stage(cost)
            assert cost.values.tobytes() == before
            assert not cost.values.flags.writeable
            assert not np.shares_memory(out.values, cost.values)
            assert not out.values.flags.writeable

    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           rows=block_rows, iterations=st.integers(0, 3),
           output_scale=scales, dtype=dtypes)
    def test_handed_over_tensor_gives_the_same_bytes(
            self, seed, grid_counts, disp_steps, rows, iterations,
            output_scale, dtype):
        """Handed over, each stage writes its result into its input's
        array, frozen again, with the bytes of the out-of-place path."""
        spatial = 1 if any(c == 2 for c in grid_counts) else 3
        params = RegularizerParams(output_scale=output_scale,
                                   iterations=iterations,
                                   spatial_kernel=spatial)
        stages = (lambda c, w: regularize(c, params, workers=w),
                  lambda c, w: softmax_probabilities(c, 3.0, workers=w))

        def both_ways(w):
            cost = random_cost(seed, grid_counts, disp_steps, dtype)
            for stage in stages:
                want = stage(cost, w).values.tobytes()
                out = stage(_hand_over(cost), w)
                assert np.shares_memory(out.values, cost.values)
                assert not out.values.flags.writeable
                assert out.values.dtype == dtype
                assert out.values.tobytes() == want
                # The regularized tensor goes on to the softmax, as in
                # the pipeline.
                cost = out

        for_each_setting(rows, grid_counts, disp_steps, both_ways,
                         np.dtype(dtype).itemsize)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_result_rejected(self):
        """The blocks do not check their output; the one check of the
        result still finds an overflow, here in every plane, and reports
        it as a numerical failure."""
        cost = CostTensor6D(np.full((5, 3, 3, 3, 3, 3), 10.0),
                            DisplacementSpace(0.3, 3))
        params = RegularizerParams(output_scale=1e308, iterations=1,
                                   spatial_kernel=3)
        with pytest.raises(ArithmeticError, match="finite"):
            regularize(cost, params, workers=2)


class TestScratch:
    @pytest.mark.parametrize("block_bytes", [0, 1 << 12, None])
    @pytest.mark.parametrize("stage, planes", [
        (lambda v: regularizer.min_convolution(v, out=v, workers=2), 6),
        (lambda v: regularizer.mean_field_step(v, 3, out=v, workers=2), 5)])
    def test_within_one_control_plane_and_one_block(self, stage, planes,
                                                    block_bytes,
                                                    monkeypatch):
        """Each plane task reads its blocks into two scratch buffers of
        one size, which together hold at most one control plane plus one
        row block of ``BLOCK_BYTES``."""
        if block_bytes is not None:
            monkeypatch.setattr(parallel, "BLOCK_BYTES", block_bytes)
        seen = {}
        view = regularizer.block_view

        def spy(flat, shape):
            seen[id(flat)] = flat       # kept alive, so ids stay unique
            return view(flat, shape)

        monkeypatch.setattr(regularizer, "block_view", spy)
        # 6 control planes of 7 rows, 5 displacement planes of 3 rows.
        vals = random_cost(5, (6, 7, 4), (5, 3, 5)).values.copy()
        stage(vals)
        sizes = {flat.nbytes for flat in seen.values()}
        assert len(seen) == 2 * planes
        assert len(sizes) == 1
        assert 2 * sizes.pop() <= vals[0].nbytes + parallel.BLOCK_BYTES


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, in bytes, as
    :mod:`tracemalloc` sees it (numpy reports its buffers there)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSamplerScratch:
    """The displaced sampler keeps its scratch per control plane and per
    worker.  At the reference shape (64³ volumes, so 21³ SSC features of
    12 channels, a 16³ control grid and 15³ offsets) on two workers the
    correlation and the label loss each allocate about 10 MiB beside
    their output; holding every channel's rows for the whole call would
    take about 19 MiB."""

    SCRATCH_MIB = 12
    counts, space = (16, 16, 16), DisplacementSpace(0.4, 15)

    def test_dissimilarity_tensor(self):
        rng = np.random.default_rng(6)
        fixed, moving = (random_features(rng, 12, (21, 21, 21))
                         for _ in range(2))
        cost, peak = traced_peak(lambda: dissimilarity_tensor(
            fixed, moving, self.counts, self.space, workers=2))
        assert peak - cost.values.nbytes <= self.SCRATCH_MIB * 2**20

    def test_nonlocal_label_loss(self):
        rng = np.random.default_rng(7)
        prob = ProbTensor6D(np.full(self.counts + self.space.steps,
                                    1.0 / self.space.num_offsets, np.float32),
                            self.space)
        moving, fixed = (Volume3D(rng.integers(0, 3, size=(64, 64, 64)),
                                  is_label=True) for _ in range(2))
        _, peak = traced_peak(lambda: nonlocal_label_loss(
            prob, moving, fixed, 3, workers=2))
        assert peak <= self.SCRATCH_MIB * 2**20

    def test_nonlocal_label_loss_compact_labels(self):
        """Labels 1-6 on six of the 27 blocks of a 64³ volume cut in
        thirds per axis: each label's crop and sub-grid are a part of the
        whole."""
        prob = ProbTensor6D(np.full(self.counts + self.space.steps,
                                    1.0 / self.space.num_offsets, np.float32),
                            self.space)
        third = np.arange(64) // 22
        block = third[:, None, None] * 9 + third[:, None] * 3 + third
        moving = Volume3D(np.where(block < 6, block + 1, 0), is_label=True)
        fixed = Volume3D(np.roll(moving.data, 3, axis=0), is_label=True)
        _, peak = traced_peak(lambda: nonlocal_label_loss(
            prob, moving, fixed, 7, workers=2))
        assert peak <= self.SCRATCH_MIB * 2**20


class TestManyWorkers:
    def test_more_workers_than_cores_with_fast_switching(self):
        """Eight workers write disjoint planes of shared buffers while the
        interpreter switches threads every microsecond: the float32
        correlation, its smoothing and that of a float64 copy."""
        rng = np.random.default_rng(3)
        fixed = random_features(rng, 2, (5, 4, 6))
        moving = random_features(rng, 2, (5, 4, 6))
        grid, space = (7, 3, 4), DisplacementSpace(0.3, (3, 5, 3))
        params = RegularizerParams(output_scale=1.5, iterations=3,
                                   spatial_kernel=3)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cost = dissimilarity_tensor(fixed, moving, grid, space, workers=8)
            copy = CostTensor6D(cost.values.astype(np.float64), space)
            smoothed = [regularize(c, params, workers=8) for c in (cost, copy)]
        finally:
            sys.setswitchinterval(old)
        want = planewise_dissimilarity(fixed, moving, grid, space)
        assert cost.values.tobytes() == want.tobytes()
        for tensor, out in zip((cost, copy), smoothed):
            assert out.values.tobytes() == smoothed_bytes(tensor.values,
                                                          params)


    def test_slab_passes_with_fast_switching(self, monkeypatch):
        """Eight workers write disjoint one-plane slabs of the warp output
        and the determinant array under the same switching."""
        monkeypatch.setattr(parallel, "SLAB_VOXELS", 1)
        rng = np.random.default_rng(4)
        field = DisplacementField(rng.normal(size=(11, 5, 6, 3)) * 0.3)
        vol = Volume3D(rng.normal(size=(11, 5, 6)))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            warped = warp(vol, field, workers=8)
            stats = jacobian_stats(field, workers=8)
        finally:
            sys.setswitchinterval(old)
        assert warped.data.tobytes() == \
            whole_volume_warp(vol, field).data.tobytes()
        assert stats == jacobian_stats(field, workers=1)


class TestShiftedMinimumPool:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16),
           shape=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           kernels=st.lists(st.sampled_from((1, 3)), min_size=4,
                            max_size=4),
           levels=st.sampled_from((2, 5, None)))
    def test_equals_minimum_filter(self, seed, shape, kernels, levels):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 1.0, size=shape)
        if levels is not None:
            data = np.floor(data * levels)      # many ties
        size = tuple(kernels[:len(shape)])
        want = ndimage.minimum_filter(data, size=size, mode="nearest")
        got = data
        for axis, k in enumerate(size):
            if k > 1:
                dst = np.empty_like(data)
                _min_pool1d(got, axis, dst)
                got = dst
        assert got.tobytes() == want.tobytes()


def _expected_error(bad):
    """Non-finite data is a numerical failure, any other violation a
    value error."""
    return ValueError if np.isfinite(bad) else ArithmeticError


class TestThreadedValidation:
    """Every plane of a tensor is checked: a bad value in the first or
    the last plane is found."""

    @pytest.mark.parametrize("plane", [0, -1])
    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"),
                                              (np.inf, "finite"),
                                              (-1e-12, "non-negative")])
    def test_cost_tensor(self, plane, bad, message):
        vals = np.ones((5, 2, 3, 3, 1, 3))
        vals[plane, -1, -1, -1, -1, -1] = bad
        with pytest.raises(_expected_error(bad), match=message):
            CostTensor6D(vals, DisplacementSpace(0.3, (3, 1, 3)))

    @pytest.mark.parametrize("plane", [0, -1])
    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"),
                                              (np.inf, "finite"),
                                              (-1e-12, r"\[0, 1\]")])
    def test_prob_tensor(self, plane, bad, message):
        # A NaN compares false with both bounds of [0, 1]: the finiteness
        # check must catch it.
        vals = np.full((5, 2, 3, 3, 1, 3), 1.0 / 9.0)
        vals[plane, -1, -1, -1, -1, -1] = bad
        with pytest.raises(_expected_error(bad), match=message):
            ProbTensor6D(vals, DisplacementSpace(0.3, (3, 1, 3)))

    def test_unnormalized_last_point_rejected(self):
        vals = np.full((5, 2, 3, 3, 1, 3), 1.0 / 9.0)
        vals[-1, -1, -1] *= 1.01
        with pytest.raises(ValueError, match="sum to 1"):
            ProbTensor6D(vals, DisplacementSpace(0.3, (3, 1, 3)))
