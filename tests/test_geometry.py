"""Coordinate conventions, container validation, and sampling primitives."""

import tracemalloc

import numpy as np
import pytest

from densereg.correlation import CostTensor6D
from densereg.features import FeatureVolume
from densereg.geometry import (
    ControlGrid,
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
from densereg.transform import ProbTensor6D
from oracles import naive_trilinear, sample_volume, trilinear_sample


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


_GRID, _SPACE = ControlGrid((2, 2, 3)), DisplacementSpace(0.2, 3)
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
             lambda a: CostTensor6D(a, _GRID, _SPACE), "values"),
    "prob": (np.full((2, 2, 3, 3, 3, 3), 1.0 / 27.0),
             lambda a: ProbTensor6D(a, _GRID, _SPACE), "values"),
}


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
        valid, build, attr = CONTAINERS[kind]
        given = valid.astype(np.float32) if convert == "float32" \
            else np.asfortranarray(valid)
        held = getattr(build(given), attr)
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


class TestControlGrid:
    def test_scalar_count_broadcasts(self):
        g = ControlGrid(5)
        assert g.counts == (5, 5, 5)
        assert g.num_points == 125

    def test_coords_are_cell_centers(self):
        g = ControlGrid((4, 4, 4))
        assert np.allclose(g.axis_coords(0), [-0.75, -0.25, 0.25, 0.75])

    def test_spacing(self):
        g = ControlGrid((8, 4, 2))
        assert np.allclose(np.diff(g.axis_coords(0)), 0.25)
        assert np.allclose(np.diff(g.axis_coords(2)), 1.0)



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

    def test_single_step_axis(self):
        space = DisplacementSpace(0.4, steps=(15, 1, 15))
        assert np.allclose(space.axis_offsets(1), [0.0])
        assert space.spacing(1) == 0.0
        assert space.num_offsets == 225

    def test_offsets_grid(self):
        space = DisplacementSpace(0.2, steps=(3, 3, 3))
        grid = space.offsets()
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
        rng = np.random.default_rng(11)
        data = rng.normal(size=(5, 6, 7))
        f0 = np.array([0.5, 2.25])
        f1 = np.array([1.0, 4.75, 0.1])
        f2 = np.array([3.2])
        grid = sample_separable(data, (f0, f1, f2))
        assert grid.shape == (2, 3, 1)
        pts = np.stack(np.meshgrid(f0, f1, f2, indexing="ij"), axis=-1)
        direct = sample_points_linear(data, pts)
        assert np.allclose(grid, direct)

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

