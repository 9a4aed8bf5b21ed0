"""Coordinate conventions, container validation, and sampling primitives."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from densereg.correlation import CostTensor6D, dissimilarity_tensor
from densereg.features import FeatureVolume
from densereg.geometry import (
    DisplacementField,
    DisplacementSpace,
    Volume3D,
    axis_centers,
    index_to_normalized,
    lerp_axis,
    normalized_to_index,
    present_labels,
    sample_points_linear,
    sample_points_nearest,
    sample_separable,
)
from densereg.phantom import PhantomSpec
from densereg.transform import ProbTensor6D, RegistrationConfig, upsample_field
from oracles import (naive_trilinear, offset_grid, sample_volume,
                     single_corner_lerp_axis, single_corner_points,
                     single_corner_separable, trilinear_sample)

# Grids with at least one one-point axis, finite values (signed zeros
# included) and sample positions inside and outside the border.
one_point_shapes = st.tuples(*[st.integers(1, 3)] * 3).filter(
    lambda shape: 1 in shape)
zeros = st.sampled_from((-0.0, 0.0))
finite = zeros | st.floats(-1e6, 1e6)
places = zeros | st.floats(-2.0, 4.0)
positions = st.lists(places, min_size=1, max_size=5).map(np.array)


class TestCoordinateConvention:
    def test_round_trip(self):
        n = 37
        idx = np.arange(n, dtype=np.float64)
        x = index_to_normalized(idx, n)
        assert np.allclose(normalized_to_index(x, n), idx)

    def test_first_and_last_centers(self):
        # Cell centers: index 0 maps to -1 + 1/n, index n-1 to 1 - 1/n.
        n = 8
        assert index_to_normalized(0, n) == pytest.approx(-1.0 + 1.0 / n)
        assert index_to_normalized(n - 1, n) == pytest.approx(1.0 - 1.0 / n)

    def test_midpoint_of_even_extent(self):
        # With an even extent the volume center falls between two voxels.
        assert index_to_normalized(3.5, 8) == pytest.approx(0.0)

    def test_axis_centers_symmetric(self):
        c = axis_centers(10)
        assert np.allclose(c, -c[::-1])
        assert len(c) == 10

    def test_shared_convention_across_resolutions(self):
        # The same normalized position must land on proportional fractional
        # indices at different resolutions.
        x = 0.3
        for n in (4, 16, 64):
            t = normalized_to_index(x, n)
            assert index_to_normalized(t, n) == pytest.approx(x)


class TestVolume3D:
    def test_validates_rank(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((4, 4)))

    def test_validates_spacing(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((4, 4, 4)), spacing=(1.0, 0.0, 1.0))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive finite"):
                Volume3D(np.zeros((4, 4, 4)), spacing=(1.0, bad, 1.0))

    def test_label_volume_requires_integers(self):
        with pytest.raises(ValueError):
            Volume3D(np.full((4, 4, 4), 0.5), is_label=True)
        with pytest.raises(ValueError):
            Volume3D(np.full((4, 4, 4), -1), is_label=True)

    def test_data_is_frozen(self):
        vol = Volume3D(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0

    def test_present_labels_is_sorted_union(self):
        # 120 voxels sort, 8192 voxels take the histogram over 0..2035.
        for shape in ((3, 4, 5), (16, 16, 16)):
            a = np.zeros(shape, dtype=np.int16)
            b = np.zeros(shape, dtype=np.int16)
            a[0, 0, :2] = (2035, 17)
            b[1, 1, :2] = (17, 3)
            got = present_labels(Volume3D(a, is_label=True),
                                 Volume3D(b, is_label=True))
            assert got.tolist() == [0, 3, 17, 2035]
        only_zero = Volume3D(np.zeros((2, 2, 2), dtype=np.uint8),
                             is_label=True)
        assert present_labels(only_zero).tolist() == [0]

    def test_present_labels_huge_id_bounded_memory(self):
        # An f32 label volume may hold an ID of 2**30; a histogram up to
        # it would take about 9 GiB.
        a = np.zeros((8, 8, 8), dtype=np.float32)
        b = np.zeros((8, 8, 8), dtype=np.float32)
        a[1, 2, 3] = 2.0 ** 30
        a[4, 4, 4] = 7
        b[0, 0, 1] = 2.0 ** 30
        b[5, 5, 5] = 3
        va, vb = Volume3D(a, is_label=True), Volume3D(b, is_label=True)
        tracemalloc.start()
        try:
            got = present_labels(va, vb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tolist() == [0, 3, 7, 2 ** 30]
        assert peak < 64 << 20

    def test_intensity_cast_to_float64(self):
        vol = Volume3D(np.zeros((4, 4, 4), dtype=np.int16))
        assert vol.data.dtype == np.float64


_SPACE = DisplacementSpace(0.2, 3)
# Per validated type: a valid array of the type's own dtype and layout,
# the constructor, and the attribute that holds the array.
CONTAINERS = {
    "intensity": (np.linspace(0.0, 1.0, 60).reshape(3, 4, 5), Volume3D,
                  "data"),
    "labels": (np.arange(60, dtype=np.int32).reshape(3, 4, 5),
               lambda a: Volume3D(a, is_label=True), "data"),
    "field": (np.linspace(-0.1, 0.1, 72).reshape(2, 3, 4, 3),
              DisplacementField, "vectors"),
    "features": (np.linspace(0.0, 1.0, 120).reshape(2, 3, 4, 5),
                 lambda a: FeatureVolume(a, (0.0,) * 3, (1.0,) * 3), "data"),
    "cost": (np.linspace(0.0, 1.0, 324).reshape(2, 2, 3, 3, 3, 3),
             lambda a: CostTensor6D(a, _SPACE), "values"),
    "prob": (np.full((2, 2, 3, 3, 3, 3), 1.0 / 27.0),
             lambda a: ProbTensor6D(a, _SPACE), "values"),
}


# The 6D tensors store float32 as well as float64.
TENSORS = ("cost", "prob")


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
class TestOwnership:
    """Every validated type takes the array it is given, never copies it,
    and makes it read-only; other dtypes and layouts are converted."""

    def test_array_is_taken_and_frozen(self, kind):
        valid, build, attr = CONTAINERS[kind]
        given = valid.copy()
        held = getattr(build(given), attr)
        assert np.shares_memory(held, given)
        assert not given.flags.writeable
        with pytest.raises(ValueError):
            held.flat[0] = 0

    @pytest.mark.parametrize("convert", ["float32", "fortran"])
    def test_other_dtype_or_layout_is_converted(self, kind, convert):
        """A float32 6D tensor is a tensor of its own dtype, taken as
        given; every other type converts it."""
        valid, build, attr = CONTAINERS[kind]
        given = valid.astype(np.float32) if convert == "float32" \
            else np.asfortranarray(valid)
        held = getattr(build(given), attr)
        if convert == "float32" and kind in TENSORS:
            assert held is given and not given.flags.writeable
            return
        assert not np.shares_memory(held, given)
        assert given.flags.writeable
        assert held.flags.c_contiguous and not held.flags.writeable
        assert held.dtype == valid.dtype
        assert np.array_equal(held, given.astype(valid.dtype))

    def test_non_finite_is_a_numerical_failure(self, kind):
        valid, build, _ = CONTAINERS[kind]
        for bad in (np.nan, np.inf):
            given = valid.astype(np.float64)
            given.flat[-1] = bad
            with pytest.raises(ArithmeticError, match="finite"):
                build(given)


class TestTensorDtype:
    """A 6D tensor keeps a float32 or float64 array's dtype and makes any
    other C-contiguous float64."""

    @pytest.mark.parametrize("kind, dtype", [
        ("cost", np.float16), ("cost", np.longdouble), ("cost", np.int64),
        ("prob", np.float16), ("prob", np.longdouble)])
    def test_other_dtype_becomes_float64(self, kind, dtype):
        # Values every one of these dtypes holds exactly: costs of 0 and
        # 1, distributions of two halves.
        _, build, _ = CONTAINERS[kind]
        valid = np.zeros((2, 2, 3) + _SPACE.steps)
        valid[..., 0, 0, :2] = 0.5 if kind == "prob" else 1.0
        given = valid.astype(dtype)
        held = build(given).values
        assert held.dtype == np.float64 and held.flags.c_contiguous
        assert not np.shares_memory(held, given)
        assert np.array_equal(held, valid)

    @pytest.mark.parametrize("kind", TENSORS)
    def test_fortran_float32_stays_float32(self, kind):
        valid, build, _ = CONTAINERS[kind]
        given = np.asfortranarray(valid.astype(np.float32))
        held = build(given).values
        assert held.dtype == np.float32 and held.flags.c_contiguous
        assert np.array_equal(held, given)


class TestCellCenteredGrid:
    """The control grid is the first three extents of a tensor's array,
    with its points at the cell centers of each axis."""

    def test_scalar_count_broadcasts(self):
        assert RegistrationConfig(grid_counts=5).grid_counts == (5, 5, 5)
        cost = CostTensor6D(np.zeros((5, 5, 5) + _SPACE.steps), _SPACE)
        assert cost.counts == (5, 5, 5)

    def test_coords_are_cell_centers(self):
        assert np.allclose(axis_centers(4), [-0.75, -0.25, 0.25, 0.75])

    def test_spacing(self):
        assert np.allclose(np.diff(axis_centers(8)), 0.25)
        assert np.allclose(np.diff(axis_centers(2)), 1.0)



_FEATURES = FeatureVolume(np.zeros((1, 4, 4, 4)), (-0.75,) * 3, (0.5,) * 3)
# Every setting that takes one int or three, read back as three ints.
_THREE_INT_SETTINGS = {
    "grid_counts": lambda v: RegistrationConfig(grid_counts=v).grid_counts,
    "steps": lambda v: DisplacementSpace(0.4, v).steps,
    "dims": lambda v: PhantomSpec(dims=v).dims,
    "upsample_field": lambda v: upsample_field(
        DisplacementField(np.zeros((2, 2, 2, 3))), v).counts,
    "dissimilarity_tensor": lambda v: dissimilarity_tensor(
        _FEATURES, _FEATURES, v, DisplacementSpace(0.4, 1)).counts,
}
# Odd and >= 9, so valid for every setting's own range rule.
_VALID_COUNT = st.integers(4, 7).map(lambda k: 2 * k + 1)


@pytest.mark.parametrize("setting", sorted(_THREE_INT_SETTINGS))
class TestOneIntOrThree:
    @settings(max_examples=20, deadline=None)
    @given(n=_VALID_COUNT, kind=st.sampled_from((int, np.int64)))
    def test_one_int_means_all_three_axes(self, setting, n, kind):
        read = _THREE_INT_SETTINGS[setting]
        assert read(kind(n)) == (n, n, n)
        assert read((n, n, kind(n))) == (n, n, n)

    @settings(max_examples=20, deadline=None)
    @given(n=_VALID_COUNT, bad=st.sampled_from(
        ("fraction", "fraction in three", "boolean", "two", "four")))
    def test_anything_else_rejected(self, setting, n, bad):
        # No value is truncated (16.5 to 16), indexed out of range (two
        # values) or silently dropped (a fourth).
        value = {"fraction": n + 0.5, "fraction in three": (n, n + 0.5, n),
                 "boolean": True, "two": (n, n), "four": (n,) * 4}[bad]
        with pytest.raises(ValueError):
            _THREE_INT_SETTINGS[setting](value)


@pytest.mark.parametrize("tensor", [CostTensor6D, ProbTensor6D])
class TestTensorGrid:
    """A 6D tensor's control grid is the first three extents of its
    array; the last three must be the space's steps."""

    @staticmethod
    def uniform(counts, steps):
        return np.full(counts + steps, 1.0 / np.prod(steps))

    @settings(max_examples=20, deadline=None)
    @given(counts=st.tuples(*[st.integers(1, 4)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3))] * 3))
    def test_counts_are_the_leading_extents(self, tensor, counts, steps):
        t = tensor(self.uniform(counts, steps), DisplacementSpace(0.3, steps))
        assert t.counts == t.values.shape[:3] == counts

    @settings(max_examples=20, deadline=None)
    @given(counts=st.tuples(*[st.integers(1, 4)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3))] * 3),
           axis=st.integers(0, 2))
    def test_bad_shapes_rejected(self, tensor, counts, steps, axis):
        space = DisplacementSpace(0.3, steps)
        vals = self.uniform(counts, steps)
        with pytest.raises(ValueError):
            tensor(vals[..., 0], space)                      # 5D
        other = tuple(s + 2 if a == axis else s for a, s in enumerate(steps))
        with pytest.raises(ValueError):
            tensor(vals, DisplacementSpace(0.3, other))      # steps differ
        with pytest.raises(ValueError):
            tensor(np.take(vals, [], axis=axis), space)      # zero extent


class TestDisplacementSpace:
    def test_offsets_span_plus_minus_q(self):
        space = DisplacementSpace(0.4, steps=15)
        offs = space.axis_offsets(0)
        assert offs[0] == pytest.approx(-0.4)
        assert offs[-1] == pytest.approx(0.4)
        assert offs[7] == pytest.approx(0.0)
        assert len(offs) == 15

    def test_spacing_formula(self):
        space = DisplacementSpace(0.4, steps=15)
        assert space.spacing(0) == pytest.approx(2 * 0.4 / 14)
        d = np.diff(space.axis_offsets(0))
        assert np.allclose(d, space.spacing(0))

    def test_requires_odd_steps(self):
        with pytest.raises(ValueError):
            DisplacementSpace(0.4, steps=(15, 14, 15))

    @pytest.mark.parametrize("q", [float("inf"), float("-inf"), float("nan"),
                                   0.0, -1.0])
    def test_requires_finite_positive_capture_range(self, q):
        # An infinite q would give offsets [-inf, nan, inf].
        with pytest.raises(ValueError, match="finite and > 0"):
            DisplacementSpace(q, steps=3)

    def test_single_step_axis(self):
        space = DisplacementSpace(0.4, steps=(15, 1, 15))
        assert np.allclose(space.axis_offsets(1), [0.0])
        assert space.spacing(1) == 0.0
        assert space.num_offsets == 225

    def test_offsets_grid(self):
        space = DisplacementSpace(0.2, steps=(3, 3, 3))
        grid = offset_grid(space)
        assert grid.shape == (3, 3, 3, 3)
        assert np.allclose(grid[0, 1, 2], [-0.2, 0.0, 0.2])


class TestSampling:
    def test_lerp_matches_direct(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=11)
        t = np.array([0.0, 3.25, 9.9, 10.0])
        out = lerp_axis(data, t, axis=0)
        assert out[0] == pytest.approx(data[0])
        assert out[1] == pytest.approx(0.75 * data[3] + 0.25 * data[4])
        assert out[3] == pytest.approx(data[10])

    def test_lerp_clamps(self):
        data = np.array([2.0, 4.0, 6.0])
        out = lerp_axis(data, np.array([-5.0, 7.0]), axis=0)
        assert np.allclose(out, [2.0, 6.0])

    def test_separable_equals_pointwise(self):
        # Extent-1 axes included: there every point takes the one value.
        rng = np.random.default_rng(11)
        f0 = np.array([0.5, 2.25, -1.0])
        f1 = np.array([1.0, 4.75, 0.1, 9.0])
        f2 = np.array([3.2])
        pts = np.stack(np.meshgrid(f0, f1, f2, indexing="ij"), axis=-1)
        for shape in ((5, 6, 7), (1, 7, 5), (6, 1, 1), (1, 1, 1)):
            data = rng.normal(size=shape)
            grid = sample_separable(data, (f0, f1, f2))
            assert grid.shape == (3, 4, 1)
            direct = sample_points_linear(data, pts)
            assert np.allclose(grid, direct), shape

    def test_vector_components_sampled_as_if_alone(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(5, 1, 7, 3))
        fracs = rng.uniform(-1.0, 8.0, size=(4, 6, 3))
        got = sample_points_linear(data, fracs)
        assert got.shape == (4, 6, 3)
        for c in range(3):
            want = sample_points_linear(data[..., c], fracs)
            assert got[..., c].tobytes() == want.tobytes()

    def test_trilinear_matches_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(6, 5, 4))
        vol = Volume3D(data)
        for _ in range(50):
            p = rng.uniform(-1.3, 1.3, size=3)
            assert trilinear_sample(vol, p) == pytest.approx(
                naive_trilinear(data, p), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_point_axes_lerp_as_the_single_corner(self, data):
        shape = data.draw(one_point_shapes)
        values = data.draw(hnp.arrays(np.float64, shape, elements=finite))
        fracs = [data.draw(positions) for _ in range(3)]
        for axis, t in enumerate(fracs):
            assert lerp_axis(values, t, axis).tobytes() == \
                single_corner_lerp_axis(values, t, axis).tobytes()
        assert sample_separable(values, fracs).tobytes() == \
            single_corner_separable(values, fracs).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), trail=st.sampled_from(((), (3,))))
    def test_one_point_axes_sample_as_the_single_corner(self, data, trail):
        shape = data.draw(one_point_shapes) + trail
        values = data.draw(hnp.arrays(np.float64, shape, elements=finite))
        fracs = data.draw(hnp.arrays(np.float64, (data.draw(
            st.integers(1, 6)), 3), elements=places))
        assert sample_points_linear(values, fracs).tobytes() == \
            single_corner_points(values, fracs).tobytes()

    def test_nearest_on_labels(self):
        labels = np.arange(27).reshape(3, 3, 3)
        vol = Volume3D(labels, is_label=True)
        # Normalized (0,0,0) is the center voxel.
        assert sample_volume(vol, np.zeros(3)) == 13

    def test_nearest_rounds_half_consistently(self):
        data = np.array([[[0.0, 1.0, 2.0, 3.0]]] )
        pts = np.array([[0.0, 0.0, 1.49], [0.0, 0.0, 1.51]])
        out = sample_points_nearest(data, pts)
        assert np.allclose(out, [1.0, 2.0])

    def test_exact_at_voxel_centers(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 4, 4))
        vol = Volume3D(data)
        for idx in [(0, 0, 0), (3, 3, 3), (1, 2, 3)]:
            p = [index_to_normalized(idx[a], 4) for a in range(3)]
            assert trilinear_sample(vol, p) == pytest.approx(data[idx], abs=1e-13)

